#!/usr/bin/env python3
"""Build the benchmark from source and run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload dense-m8 --seed 1 --seconds 20 --trace 0

The arguments are passed unchanged to the `perfbench` binary, whose last
line of standard output is the result JSON. Cargo builds into
$CARGO_TARGET_DIR (default `.bench_build`), offline; all build output goes
to standard error. A failed build exits non-zero without a result line.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main() -> int:
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    build = subprocess.run(
        [
            "cargo",
            "build",
            "--release",
            "--offline",
            "--quiet",
            "--manifest-path",
            os.path.join(HERE, "Cargo.toml"),
        ],
        env=env,
        stdout=sys.stderr,
    )
    if build.returncode != 0:
        print(f"perfbench: build failed with exit code {build.returncode}", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    # Fix glibc malloc's run-to-run choices, which moved the peak RSS of one
    # workload by up to 15% between identical runs (README.md): one arena
    # for all node threads, and a fixed mmap threshold (the default initial
    # 128 KiB) in place of the one glibc adapts as memory is freed.
    env["MALLOC_ARENA_MAX"] = "1"
    env["MALLOC_MMAP_THRESHOLD_"] = "131072"
    return subprocess.run([exe, *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
