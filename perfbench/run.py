#!/usr/bin/env python3
"""Builds the benchmark and the node-host server from this source tree, then
runs the benchmark.

    python3 perfbench/run.py --workload <name|all> --seed N --seconds N --trace 0|1

The build goes to $CARGO_TARGET_DIR (default: .bench_build at the root of
the tree). The node-host binary built here is handed to the benchmark
explicitly, so a multi-process workload never runs a stale server found
elsewhere. Cargo's output goes to stderr; the last line of stdout is the
benchmark's JSON result. The exit code is non-zero when the build fails or
any correctness check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# A run must end within 180 s; leave the benchmark room to report.
RUN_TIMEOUT_S = 175


def main():
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    target = os.path.abspath(target)
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
            "-p", "perfbench", "-p", "hammer", "--bins",
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    binary = os.path.join(target, "release", "perfbench")
    node_host = os.path.join(target, "release", "node-host")
    try:
        run = subprocess.run(
            [binary, *sys.argv[1:], "--node-host", node_host],
            env=env,
            timeout=RUN_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        print(f"perfbench: no result within {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
