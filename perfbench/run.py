#!/usr/bin/env python3
"""Build the ibox daemon and the benchmark binary, then run one workload.

Run from the repository root:

    python3 perfbench/run.py --workload replay-bulk --seed 1 --seconds 20 --trace 0

Both are release builds into $CARGO_TARGET_DIR (default .bench_build).
Run artifacts (model dirs while running, result and trace files after)
go to .bench_run. The last line of stdout is the result object; see
perfbench/src/main.rs for what a run does.
"""

import os
import subprocess
import sys


def build(*args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet", *args]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    target = os.environ.setdefault("CARGO_TARGET_DIR", ".bench_build")
    if not os.path.isfile("Cargo.toml") or not os.path.isdir("crates"):
        sys.exit("perfbench: run from the repository root (no Cargo.toml or crates/ here)")
    if not build("-p", "ibox-cli") or not build("--manifest-path", "perfbench/Cargo.toml"):
        sys.exit("perfbench: build failed")
    release = os.path.join(target, "release")
    bench = os.path.join(release, "ibox-perfbench")
    os.makedirs(".bench_run", exist_ok=True)
    argv = [bench, "--ibox", os.path.join(release, "ibox"), "--out", ".bench_run"]
    os.execv(bench, argv + sys.argv[1:])


if __name__ == "__main__":
    main()
