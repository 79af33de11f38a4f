#!/usr/bin/env python3
"""Build and run the irnuma end-to-end benchmark.

    python3 perfbench/run.py --workload repro|corpus|train|serve \
        --seed N --seconds S --trace 0|1

Run from the repository root. Builds `perfbench` (a cargo package of its
own, against the repository's crates) into `$CARGO_TARGET_DIR`, default
`.bench_build`, then hands the arguments to `perfbench run`. The last line
of standard output is the JSON result; see README.md.
"""
import os
import subprocess
import sys


def main() -> int:
    here = os.path.dirname(os.path.abspath(__file__))
    env = dict(os.environ)
    target = os.path.abspath(env.get("CARGO_TARGET_DIR") or ".bench_build")
    env["CARGO_TARGET_DIR"] = target
    build = subprocess.run(
        ["cargo", "build", "--release", "--offline", "--locked", "--quiet",
         "--manifest-path", os.path.join(here, "Cargo.toml")],
        env=env, stdout=sys.stderr,
    )
    if build.returncode != 0:
        print("perfbench: build failed", file=sys.stderr)
        return 1
    exe = os.path.join(target, "release", "perfbench")
    return subprocess.run([exe, "run", *sys.argv[1:]], env=env).returncode


if __name__ == "__main__":
    sys.exit(main())
