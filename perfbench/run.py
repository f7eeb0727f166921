#!/usr/bin/env python3
"""Builds and runs the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload <table2|scan> --seed N \
        --seconds S --trace <0|1>

Builds the `octopocsd` daemon (repository workspace) and the `perfbench`
binary (its own workspace under perfbench/) in release mode into
$CARGO_TARGET_DIR (default `.bench_build`), then runs the benchmark and
passes its output and exit code through. The last line of stdout is the
JSON result. Build output goes to stderr.
"""

import os
import subprocess
import sys


def main() -> int:
    root = os.getcwd()
    target = os.environ.get("CARGO_TARGET_DIR") or os.path.join(root, ".bench_build")
    env = dict(os.environ, CARGO_TARGET_DIR=target)
    builds = [
        ["cargo", "build", "--release", "--quiet", "--manifest-path", "Cargo.toml",
         "-p", "octopocs", "--bin", "octopocsd"],
        ["cargo", "build", "--release", "--quiet",
         "--manifest-path", os.path.join("perfbench", "Cargo.toml")],
    ]
    for cmd in builds:
        # Cargo's own stdout must not reach ours: the result line is last.
        done = subprocess.run(cmd, cwd=root, env=env, stdout=sys.stderr)
        if done.returncode != 0:
            print(f"perfbench: build failed: {' '.join(cmd)}", file=sys.stderr)
            return done.returncode or 2
    release = os.path.join(target, "release")
    bench = [os.path.join(release, "perfbench"), *sys.argv[1:],
             "--daemon", os.path.join(release, "octopocsd")]
    return subprocess.run(bench, cwd=root).returncode


if __name__ == "__main__":
    sys.exit(main())
