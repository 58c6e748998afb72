#!/usr/bin/env python3
"""Build and run the Penelope benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload <pipeline|sweep|netlist> \
        --seed <n> --seconds <s> --trace <0|1>

Builds the `perfbench` crate in release mode, offline, into
$CARGO_TARGET_DIR (default `.bench_build`), then runs it with the same
arguments and a work directory inside the target directory. Build output
goes to stderr; the benchmark's result line is the last line of stdout.
When the build or the run fails the exit code is non-zero and no result
line is printed.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    target = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo", "build", "--release", "--offline", "--quiet",
            "--manifest-path", os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "perfbench")
    work_dir = os.path.join(target, "perfbench-work")
    run = subprocess.run([binary, *sys.argv[1:], "--work-dir", work_dir], env=env)
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
