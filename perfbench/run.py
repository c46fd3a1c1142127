#!/usr/bin/env python3
"""Builds stackopt and the benchmark harness, then runs one workload.

Run from the repository root:

    python3 perfbench/run.py --workload city --seed 1 --seconds 15 --trace 0

Workloads: city, city-od, fleet, serve (see perfbench/LAYERS.md). The
release build goes to $CARGO_TARGET_DIR (default .bench_build). The last
line of standard output is the harness's JSON result.
"""

import os
import subprocess
import sys

ROOT = os.getcwd()
BENCH = os.path.join(ROOT, "perfbench")


def build(target):
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    steps = [
        # The daemon the serve workload drives: the repository's own binary.
        ["cargo", "build", "--release", "--offline", "--locked", "--bin", "sopt"],
        ["cargo", "build", "--release", "--offline", "--locked",
         "--manifest-path", os.path.join(BENCH, "Cargo.toml")],
    ]
    for cmd in steps:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            sys.exit("perfbench: build failed: " + " ".join(cmd))


def main():
    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")):
        sys.exit("perfbench: run from the repository root (no Cargo.toml here)")
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isabs(target):
        target = os.path.join(ROOT, target)
    build(target)
    out = os.path.relpath(os.path.join(target, "perfbench"), ROOT)
    cmd = [
        os.path.join(target, "release", "perfbench"),
        "--sopt", os.path.join(target, "release", "sopt"),
        "--out", out,
    ] + sys.argv[1:]
    sys.stdout.flush()
    done = subprocess.run(cmd, cwd=ROOT)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()
