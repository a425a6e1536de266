#!/usr/bin/env python3
"""Builds the Carpool end-to-end benchmark from source and runs one workload.

Run from the root of the repository:

    python3 perfbench/run.py --workload link_mixed --seed 1 --seconds 20 --trace 0

The arguments go unchanged to the benchmark binary (see perfbench/README.md).
Cargo builds offline into $CARGO_TARGET_DIR, or .bench_build when unset.
Build output goes to stderr, so the last line of stdout is the binary's
JSON result. A failed build exits non-zero without printing a result.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    env["CARGO_NET_OFFLINE"] = "true"
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--quiet",
         "--manifest-path", os.path.join(HERE, "Cargo.toml")],
        env=env, stdout=sys.stderr, check=False)
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return build.returncode or 1
    binary = os.path.join(target, "release", "carpool-perfbench")
    return subprocess.run([binary] + sys.argv[1:], env=env, check=False).returncode


if __name__ == "__main__":
    sys.exit(main())
